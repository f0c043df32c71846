package main

import (
	"strings"
	"testing"
)

// Sizing flags the daemon cannot honour are rejected before it starts;
// -slots 0 used to panic dividing GOMAXPROCS by it.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name                                    string
		slots, queue, jobPar, maxCells, maxRuns int
		wantErr                                 string
	}{
		{"defaults", 2, 16, 0, 0, 1024, ""},
		{"one slot, no queue", 1, 0, 1, 1, 0, ""},
		{"zero slots", 0, 16, 0, 0, 1024, "-slots 0"},
		{"negative slots", -1, 16, 0, 0, 1024, "-slots -1"},
		{"negative queue", 2, -1, 0, 0, 1024, "-queue -1"},
		{"negative job parallelism", 2, 16, -2, 0, 1024, "-job-parallelism -2"},
		{"negative max cells", 2, 16, 0, -5, 1024, "-max-cells -5"},
		{"negative max runs", 2, 16, 0, 0, -1, "-max-runs -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.slots, tc.queue, tc.jobPar, tc.maxCells, tc.maxRuns)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
			case err != nil && strings.Contains(err.Error(), "\n"):
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}
