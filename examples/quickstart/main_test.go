package main

import "testing"

// TestQuickstartRuns keeps the demo a reader copies from rotting: tier-1
// builds it, this runs it.
func TestQuickstartRuns(t *testing.T) { main() }
