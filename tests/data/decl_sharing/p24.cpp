class A { public: int f() = 1; };
int main() { return 0; }
