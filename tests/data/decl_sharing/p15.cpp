class A { virtual int x; };
int main() { return 0; }
