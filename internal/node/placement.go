package node

import (
	"fmt"

	"rafda/internal/policy"
)

// placement turns an endpoint into a class placement: "", "local" or
// one of this node's own endpoints place locally — so a class placed
// at the node that will host it creates plain local instances instead
// of looping every creation through its own server — and anything else
// places remotely.
func (n *Node) placement(endpoint string) (policy.Placement, error) {
	if endpoint == "" || endpoint == "local" || n.servesEndpoint(endpoint) {
		return policy.LocalPlacement, nil
	}
	return policy.RemoteAt(endpoint)
}

// PlaceClass places future instances (and the statics singleton) of
// class at the node serving endpoint ("" or "local" = local placement).
// In a cluster the placement is a new policy epoch every member
// converges on through the shared directory.
func (n *Node) PlaceClass(class, endpoint string) error {
	pl, err := n.placement(endpoint)
	if err != nil {
		return err
	}
	n.pol.SetClass(class, pl)
	n.announceClassPlacement(class, endpoint)
	return nil
}

// PlaceClassIf is PlaceClass applied only if the policy table version
// still equals ifVersion — the adapt engine's flip, which must never
// overwrite a re-policy made while its window was being evaluated.
func (n *Node) PlaceClassIf(class, endpoint string, ifVersion uint64) error {
	pl, err := n.placement(endpoint)
	if err != nil {
		return err
	}
	if !n.pol.SetClassIf(class, pl, ifVersion) {
		return fmt.Errorf("policy re-configured concurrently; decision dropped")
	}
	n.announceClassPlacement(class, endpoint)
	return nil
}

// PlaceDefault sets the fallback placement for every class without a
// rule of its own.  It is local to this node: defaults are not
// announced to the cluster.
func (n *Node) PlaceDefault(endpoint string) error {
	pl, err := n.placement(endpoint)
	if err != nil {
		return err
	}
	n.pol.SetDefault(pl)
	return nil
}

// PolicyVersion returns the policy table's configuration version.
func (n *Node) PolicyVersion() uint64 { return n.pol.Version() }

// ClassPlacement returns the endpoint class is placed at ("" when it is
// placed locally).
func (n *Node) ClassPlacement(class string) string {
	if pl, _ := n.pol.For(class); pl.Kind == policy.Remote {
		return pl.Endpoint
	}
	return ""
}

// announceClassPlacement publishes a class placement into the cluster
// directory as the class's next policy epoch (no-op outside a cluster).
// The origin announces the endpoint it was given, even its own: each
// follower decides for itself whether that endpoint is local.
func (n *Node) announceClassPlacement(class, endpoint string) {
	if endpoint == "local" {
		endpoint = ""
	}
	if co := n.coord.Load(); co != nil {
		co.RecordClassPlacement(class, endpoint)
	}
}
