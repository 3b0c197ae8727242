// before
int A::get() { return x; }
class A { public: int x; int y; int get(); };
int main() { A a; a.y = 2; return a.get(); }
