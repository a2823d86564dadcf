// Fixture: the file's only finding carries a reasoned suppression, so
// clip-lint exits 0 and counts one suppressed finding.
#include <cstdlib>

int roll() { return rand() % 6; }  // clip-lint: allow(D4) fixture exercises a reasoned suppression
