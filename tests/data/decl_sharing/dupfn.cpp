int f() { return 1; }
int f() { return 1; }
int main() { return f(); }
