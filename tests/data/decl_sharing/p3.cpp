typedef int T;
