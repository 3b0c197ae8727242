struct S* p;
int main() { return 0; }
