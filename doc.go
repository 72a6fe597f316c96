// Package rafda is a Go reproduction of "A Reflective Approach to
// Providing Flexibility in Application Distribution" (Rebón Portillo,
// Walker, Kirby, Dearle — Middleware 2003): an adaptive, reflective
// framework that transforms non-distributed programs into semantically
// equivalent programs whose distribution boundaries are flexible.
//
// The pipeline is:
//
//	source (mini-Java)  --Compile-->  verified bytecode program
//	program             --Analyze-->  substitutability analysis (§2.4)
//	program             --Transform-> componentised program (§2.1–2.3):
//	                                  per class A: A_O_Int, A_O_Local,
//	                                  A_O_Proxy, A_C_Int, A_C_Local,
//	                                  A_C_Proxy, A_O_Factory, A_C_Factory;
//	                                  a proxy's endpoint names its transport
//	transformed program --NewNode-->  address spaces that place classes by
//	                                  policy, proxy remote instances over
//	                                  rrp/soap/json/inproc transports,
//	                                  migrate live objects, and re-draw
//	                                  distribution boundaries at run time
//
// Nodes can also redraw those boundaries themselves: StartAdapter
// switches on a per-node telemetry plane and a rule-driven placement
// engine that migrates hot objects toward their dominant callers and
// re-points class placements automatically, with hysteresis and a
// migration budget so placement never thrashes (docs/ADAPTIVE.md,
// experiment E9).
//
// JoinCluster lifts placement from node-local to cluster-wide: members
// gossip membership (with liveness), a shared placement directory
// (stale references resolve migrated objects in one hop, class
// placements converge as policy epochs), and placement intents — the
// adapters' decisions reconcile deterministically across the cluster
// instead of executing unilaterally, including multi-hop migrations
// proposed by a node that neither hosts nor calls the object
// (docs/CLUSTER.md, experiment E10).
//
// A minimal end-to-end use:
//
//	prog, _ := rafda.CompileString(src)
//	tr, _ := prog.Transform()
//	server, _ := tr.NewNode(rafda.NodeConfig{Name: "server"})
//	endpoint, _ := server.Serve("rrp", "127.0.0.1:0")
//	client, _ := tr.NewNode(rafda.NodeConfig{Name: "client"})
//	client.PlaceClass("C", endpoint) // instances of C now live remotely
//	client.RunMain("Main")
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every figure and claim in the paper.
package rafda
