int main() { return 0; }
int x = 