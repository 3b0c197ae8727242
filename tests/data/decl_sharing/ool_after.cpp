class A { public: int x; int get(); };
// gap
int A::get() { return x + qq; }
int main() { A a; return a.get(); }
