package main

import (
	"reflect"
	"strings"
	"testing"

	"ghrpsim/internal/workload"
)

// genSuite turns the -gen* flags into a SuiteGen through parseFloats:
// empty strings and zero numbers leave the generator's defaults, and a
// -gen-mix or -gen-footprint with the wrong count or a non-numeric
// entry is rejected naming its flag.
func TestGenSuite(t *testing.T) {
	cases := []struct {
		name      string
		mix, foot string
		steps     int
		want      *workload.SuiteGen
		wantErr   string
	}{
		{name: "defaults", want: &workload.SuiteGen{N: 10, Seed: 7}},
		{name: "mix and footprint", mix: "1, 2,3,4", foot: "0.5,2", steps: 3,
			want: &workload.SuiteGen{N: 10, Seed: 7, FootprintSteps: 3,
				Mix:          workload.Mix{ShortMobile: 1, LongMobile: 2, ShortServer: 3, LongServer: 4},
				FootprintMin: 0.5, FootprintMax: 2}},
		{name: "three mix weights", mix: "1,2,3", wantErr: "-gen-mix wants 4"},
		{name: "non-numeric footprint", foot: "0.5,big", wantErr: "-gen-footprint"},
		{name: "one footprint bound", foot: "0.5", wantErr: "-gen-footprint wants 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := genSuite(10, 7, tc.mix, tc.foot, tc.steps)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("genSuite: %v", err)
			}
			if !reflect.DeepEqual(g, tc.want) {
				t.Fatalf("genSuite = %+v, want %+v", g, tc.want)
			}
		})
	}
}

// splitList drops blank entries and trims the rest, so "a, b,,c" and a
// trailing comma name the same list.
func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"LRU", []string{"LRU"}},
		{"LRU, GHRP,,SDBP,", []string{"LRU", "GHRP", "SDBP"}},
		{"  http://a:1 ,http://b:2  ", []string{"http://a:1", "http://b:2"}},
	}
	for _, tc := range cases {
		if got := splitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
