int a = 1, b = 2;
int main() { return 0; }
