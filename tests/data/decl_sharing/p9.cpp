enum E { A, B }
int main() { return 0; }
