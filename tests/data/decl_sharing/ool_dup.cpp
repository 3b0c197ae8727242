class A { public: int x; int get() { return 1; } };
int A::get() { return x; }
int main() { return 0; }
