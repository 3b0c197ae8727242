int main() { return (1; }
