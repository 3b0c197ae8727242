class A { public: int x; };
int A::nope() { return x; }
int main() { return 0; }
