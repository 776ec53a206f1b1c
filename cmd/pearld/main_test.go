package main

import (
	"reflect"
	"testing"
)

func TestSplitPeers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a, b,", []string{"a", "b"}},
		{" ,a", []string{"a"}},
	} {
		if got := splitPeers(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitPeers(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
