// dup
class Base {
public:
    int a;
    int b;
    Base() : a(1), b(2) { }
    virtual int get() { return a; }
};
class Derived : public Base {
public:
    int c;
    int get() { return c + a; }
};
class Base {
public:
    int a;
    int b;
    Base() : a(1), b(2) { }
    virtual int get() { return a; }
};
class Derived : public Base {
public:
    int c;
    int get() { return c + a; }
};
int main() { return 0; }
