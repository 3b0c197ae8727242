class G;
int G::nope() { return 1; }
int main() { return 0; }
