// cycle
class A : public B { public: int x; };
class B : public A { public: int y; };
int main() { return 0; }
