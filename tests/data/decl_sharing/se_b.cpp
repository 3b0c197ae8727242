// b-b
class A { public: int x; int x; };
int main() { return 0; }
