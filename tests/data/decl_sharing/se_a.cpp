// a
class A : public Missing { public: int x; };
int main() { return 0; }
