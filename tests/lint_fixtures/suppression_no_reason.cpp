// Fixture: the file's only suppression gives no reason, so it suppresses
// nothing and clip-lint exits 1.
#include <cstdlib>

int roll() { return rand() % 6; }  // clip-lint: allow(D4)
