package main

import (
	"testing"

	"rafda"
	"rafda/internal/adapt"
)

// TestDecisionLine pins the -adapt log format: every outcome is named,
// so a decision delegated to the cluster is not mistaken for a held one
// and a held decision says why.
func TestDecisionLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    rafda.AdaptDecision
		want string
	}{
		{"executed",
			rafda.AdaptDecision{Kind: adapt.KindMigrate, GUID: "g#1", Endpoint: "rrp://b:1",
				Executed: true, Reason: "hot"},
			`adapt: migrate g#1 -> "rrp://b:1" (executed): hot`},
		{"delegated",
			rafda.AdaptDecision{Kind: adapt.KindMigrate, GUID: "g#1", Endpoint: "rrp://b:1",
				Delegated: true, Reason: "hot"},
			`adapt: migrate g#1 -> "rrp://b:1" (delegated): hot`},
		{"held",
			rafda.AdaptDecision{Kind: adapt.KindMigrate, GUID: "g#1", Endpoint: "rrp://b:1",
				Err: "suppressed: budget 2/2 spent in the last 64 windows", Reason: "hot"},
			`adapt: migrate g#1 -> "rrp://b:1" (held: suppressed: budget 2/2 spent in the last 64 windows): hot`},
		{"class",
			rafda.AdaptDecision{Kind: adapt.KindPlaceClass, Class: "C", Executed: true, Reason: "pull"},
			`adapt: place-class class C -> "" (executed): pull`},
	} {
		if got := decisionLine(tc.d); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
