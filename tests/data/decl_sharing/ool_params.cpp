class A { public: int x; int add(int p, int q); };


int A::add(int a, int b) { return a + b + r; }
int main() { A a; return a.add(1, 2); }
