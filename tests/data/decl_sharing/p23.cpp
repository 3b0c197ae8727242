union U : public A { int x; };
int main() { return 0; }
