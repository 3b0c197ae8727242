class A { public: int x; ~B() { } };
int main() { return 0; }
