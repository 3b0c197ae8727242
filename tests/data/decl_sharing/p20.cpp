int f() { return 1; } ; int main() { return 0; }
