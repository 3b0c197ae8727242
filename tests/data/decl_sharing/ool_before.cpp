// before
int A::get() { return x + qq; }
class A { public: int x; int get(); };
int main() { A a; return a.get(); }
