// rec
class A { public: A inner; };
int main() { return 0; }
