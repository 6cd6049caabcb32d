package main

import (
	"strings"
	"testing"
)

func TestValidateActions(t *testing.T) {
	cases := []struct {
		name              string
		out, info, replay string
		wantErr           string // substring; "" means valid
	}{
		{name: "none set", wantErr: "one of -out, -info or -replay is required"},
		{name: "out only", out: "a.trace"},
		{name: "info only", info: "a.trace"},
		{name: "replay only", replay: "a.trace"},
		{name: "out+info", out: "a.trace", info: "a.trace", wantErr: "mutually exclusive"},
		{name: "out+replay", out: "a.trace", replay: "a.trace", wantErr: "mutually exclusive"},
		{name: "info+replay", info: "a.trace", replay: "a.trace", wantErr: "mutually exclusive"},
		{name: "all three", out: "a", info: "b", replay: "c", wantErr: "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateActions(tc.out, tc.info, tc.replay)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateActions(%q, %q, %q) = %v, want nil",
						tc.out, tc.info, tc.replay, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateActions(%q, %q, %q) = nil, want error containing %q",
					tc.out, tc.info, tc.replay, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateActions(%q, %q, %q) = %q, want substring %q",
					tc.out, tc.info, tc.replay, err, tc.wantErr)
			}
		})
	}
}
