int main() { int a = 'x; return 0; }
