// c
class A { public: Unknown y; };
int main() { return 0; }
