int (*fp)(int) = 0;
int main() { return 0; }
