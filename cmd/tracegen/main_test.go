package main

import (
	"strings"
	"testing"
)

func TestValidateActions(t *testing.T) {
	cases := []struct {
		name      string
		out, info string
		wantErr   string // substring; "" means valid
	}{
		{name: "none set", wantErr: "one of -out or -info is required"},
		{name: "out only", out: "a.trace"},
		{name: "info only", info: "a.trace"},
		{name: "out+info", out: "a.trace", info: "a.trace", wantErr: "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateActions(tc.out, tc.info)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateActions(%q, %q) = %v, want nil", tc.out, tc.info, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateActions(%q, %q) = %v, want error containing %q", tc.out, tc.info, err, tc.wantErr)
			}
		})
	}
}
