/* unterminated
int main() { return 0; }
