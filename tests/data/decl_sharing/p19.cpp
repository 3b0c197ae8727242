class A { public: int x; } int main() { return 0; }
