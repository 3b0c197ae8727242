int f();
int f();
int f() { return 1; }
int f();
int main() { return f(); }
