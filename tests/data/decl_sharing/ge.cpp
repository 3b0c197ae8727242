// g
class A { public: int x; };
A g1;
int g2 = g1.nope;
int main() { return g2; }
