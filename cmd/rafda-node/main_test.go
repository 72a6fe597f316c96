package main

import (
	"testing"

	"rafda"
	"rafda/internal/adapt"
)

// TestDecisionLine pins the -adapt log format CI's placement-loop smoke
// greps for: kind, target, destination, the decision's Outcome (whose
// words adapt.TestDecisionOutcome pins) and the reason.
func TestDecisionLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    rafda.AdaptDecision
		want string
	}{
		{"object",
			rafda.AdaptDecision{Kind: adapt.KindMigrate, GUID: "g#1", Endpoint: "rrp://b:1",
				Executed: true, Reason: "hot"},
			`adapt: migrate g#1 -> "rrp://b:1" (executed): hot`},
		{"class",
			rafda.AdaptDecision{Kind: adapt.KindPlaceClass, Class: "C", Err: "policy version moved", Reason: "pull"},
			`adapt: place-class class C -> "" (held: policy version moved): pull`},
	} {
		if got := decisionLine(tc.d); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
