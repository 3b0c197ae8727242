class A { public: int x; A() : x(qq) { } };
int main() { A a; return a.x; }
