package rafda

import (
	"fmt"

	"rafda/internal/transport"
	"rafda/internal/wire"
)

// IntrospectEndpoint fetches one introspection section from the node
// serving endpoint, as JSON — the remote form of Node.IntrospectJSON.
// Sections: "metrics" (or ""), the unified counters/histograms
// snapshot; "events", the node's control log; "spans", the node's
// flight-recorder ring; "trace", the spans of the one trace whose hex
// id is arg.  The request is effect-free on the target
// (wire.OpIntrospect rides the same dispatch plane as ping), so polling
// a production node is always safe.  Used by rafdac's "trace" and "top"
// views.
func IntrospectEndpoint(endpoint, section, arg string) (string, error) {
	cc := transport.NewClientCachePool(transport.Default(transport.Options{}), 1)
	defer cc.Close()
	resp, err := cc.Call(endpoint, &wire.Request{
		ID: 1, Op: wire.OpIntrospect, Method: section, GUID: arg,
	})
	if err != nil {
		return "", err
	}
	if resp.Err != "" {
		return "", fmt.Errorf("introspect %s: %s", endpoint, resp.Err)
	}
	return resp.Result.Str, nil
}
