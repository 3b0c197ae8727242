int main() { return 0; }
class