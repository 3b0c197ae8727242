int g2 = zz + 1;
int main() { return g2; }
