int main() { switch (1) { case 1: return 0; } return 1; }
int y = 3 } ;
