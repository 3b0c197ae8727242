// params
class A { public: int f(Unknown u) { return 1; } };
int main() { return 0; }
