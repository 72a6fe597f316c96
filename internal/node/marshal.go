package node

import (
	"fmt"

	"rafda/internal/guid"
	"rafda/internal/ir"
	"rafda/internal/transform"
	"rafda/internal/vm"
	"rafda/internal/wire"
)

// Marshalling rules:
//
//   - primitives and strings travel by value;
//   - arrays travel by value (element-wise), like RMI arrays;
//   - proxy instances re-marshal as the remote reference they already
//     hold, so references retarget rather than chain;
//   - other objects are exported into the node's table and travel as a
//     remote reference back to this node.
//
// Unmarshalling inverts this, short-circuiting references that point at
// this node back to the live local object.
//
// Marshalling needs no global lock: object snapshots are taken per
// object (Object.View), and the export table synchronises itself.  A
// caller that must marshal and morph atomically (migration) holds the
// object's gate around both.

func (n *Node) marshalValue(v vm.Value, viaProto string) (wire.Value, error) {
	switch v.K {
	case 0, ir.KindVoid:
		return wire.Value{Kind: wire.KVoid}, nil
	case ir.KindBool:
		return wire.Value{Kind: wire.KBool, Bool: v.Bool()}, nil
	case ir.KindInt:
		return wire.Value{Kind: wire.KInt, Int: v.I}, nil
	case ir.KindFloat:
		return wire.Value{Kind: wire.KFloat, Float: v.F}, nil
	case ir.KindString:
		return wire.Value{Kind: wire.KString, Str: v.S}, nil
	case ir.KindRef:
		if v.O == nil {
			return wire.Value{Kind: wire.KNull}, nil
		}
		return n.marshalObject(v.O, viaProto)
	case ir.KindArray:
		if v.A == nil {
			return wire.Value{Kind: wire.KNull}, nil
		}
		out := wire.Value{Kind: wire.KArray, Elem: v.A.Elem.Descriptor()}
		out.Arr = make([]wire.Value, len(v.A.Vals))
		for i, el := range v.A.Vals {
			mv, err := n.marshalValue(el, viaProto)
			if err != nil {
				return wire.Value{}, err
			}
			out.Arr[i] = mv
		}
		return out, nil
	default:
		return wire.Value{}, fmt.Errorf("cannot marshal value kind %v", v.K)
	}
}

func (n *Node) marshalObject(obj *vm.Object, viaProto string) (wire.Value, error) {
	if ref := proxyRefOf(obj); ref != nil {
		// Re-export the reference the proxy holds: the receiver will
		// talk to the object's home directly.
		return wire.Value{Kind: wire.KRef, Ref: ref}, nil
	}
	base := transform.MarkOf(obj.Class()).Base
	if !n.result.Substitutable(base) {
		// Throwables travel via the response exception channel; any
		// other non-substitutable object cannot cross the boundary.
		return wire.Value{}, fmt.Errorf("object of class %s is not substitutable and cannot cross address spaces", obj.ClassName())
	}
	ep := n.anyEndpoint(viaProto)
	if ep == "" {
		return wire.Value{}, fmt.Errorf("node %s exports object of %s but serves no transport", n.name, base)
	}
	return wire.Value{Kind: wire.KRef, Ref: &wire.RemoteRef{
		GUID: n.exports.Ensure(obj), Endpoint: ep, Target: base,
	}}, nil
}

func (n *Node) unmarshalValue(env *vm.Env, v wire.Value) (vm.Value, error) {
	switch v.Kind {
	case wire.KVoid:
		return vm.Value{}, nil
	case wire.KNull:
		return vm.NullV(), nil
	case wire.KBool:
		return vm.BoolV(v.Bool), nil
	case wire.KInt:
		return vm.IntV(v.Int), nil
	case wire.KFloat:
		return vm.FloatV(v.Float), nil
	case wire.KString:
		return vm.StringV(v.Str), nil
	case wire.KRef:
		return n.unmarshalRef(env, v.Ref)
	case wire.KArray:
		elem, err := ir.ParseDescriptor(v.Elem)
		if err != nil {
			return vm.Value{}, fmt.Errorf("bad array element descriptor: %w", err)
		}
		arr := vm.NewArray(elem, len(v.Arr))
		for i, wv := range v.Arr {
			ev, err := n.unmarshalValue(env, wv)
			if err != nil {
				return vm.Value{}, err
			}
			if !ev.Fits(elem) {
				what := ev.K.String()
				if ev.IsNullRef() {
					what = "null"
				}
				return vm.Value{}, fmt.Errorf("array of %s holds %s at index %d", elem, what, i)
			}
			arr.Vals[i] = ev
		}
		return vm.ArrayV(arr), nil
	default:
		return vm.Value{}, fmt.Errorf("cannot unmarshal value kind %v", v.Kind)
	}
}

func (n *Node) unmarshalRef(env *vm.Env, ref *wire.RemoteRef) (vm.Value, error) {
	if ref == nil {
		return vm.NullV(), nil
	}
	// Reference back to this node: unwrap to the live object.
	if n.servesEndpoint(ref.Endpoint) {
		if obj, ok := n.exports.Get(ref.GUID); ok {
			return vm.RefV(obj), nil
		}
		if class, ok := guid.IsClassGUID(ref.GUID); ok {
			me, thrown, err := n.localSingleton(env, class)
			if err != nil {
				return vm.Value{}, err
			}
			if thrown != nil {
				cls, msg := vm.ThrownMessage(thrown)
				return vm.Value{}, fmt.Errorf("initialising statics of %s: %s: %s", class, cls, msg)
			}
			return me, nil
		}
		return vm.Value{}, fmt.Errorf("reference %s points at this node but is not exported", ref.GUID)
	}
	// Foreign reference: materialise a proxy.
	return n.newProxy(env, ref.GUID, ref.Endpoint, ref.Target)
}

// newProxy makes a proxy for the object id of class served at endpoint,
// the one place a node makes one.  A class GUID names a statics proxy
// (A_C_Proxy) of its own class, and class must be that class: a
// reference naming another is refused, since it comes from outside.
// Any other GUID names an instance proxy (A_O_Proxy).  A declared class
// that only shares the proxy's name is no proxy: it has no proxy's mark.
func (n *Node) newProxy(env *vm.Env, id, endpoint, class string) (vm.Value, error) {
	proxyClass := transform.OProxy(class)
	if statics, ok := guid.IsClassGUID(id); ok {
		if statics != class {
			return vm.Value{}, fmt.Errorf("reference %s names class %q", id, class)
		}
		proxyClass = transform.CProxy(class)
	}
	if !transform.MarkOf(n.machine.Program().Class(proxyClass)).Kind.Proxy() {
		return vm.Value{}, fmt.Errorf("no proxy class %s for incoming reference", proxyClass)
	}
	obj, err := env.New(proxyClass)
	if err != nil {
		return vm.Value{}, err
	}
	setProxyRef(obj, id, endpoint)
	return vm.RefV(obj), nil
}

// proxyRefOf returns the remote reference obj holds when it is a proxy
// — a reference it was handed, or its own forwarding address once
// migrated away — and nil otherwise.  The class check keeps
// non-proxies allocation-free (a proxy never morphs back); the proxy's
// mark names the class and its fields the GUID and endpoint.
func proxyRefOf(obj *vm.Object) *wire.RemoteRef {
	m := transform.MarkOf(obj.Class())
	if !m.Kind.Proxy() {
		return nil
	}
	id, endpoint := readProxyRef(obj)
	return &wire.RemoteRef{GUID: id, Endpoint: endpoint, Target: m.Base}
}

// readProxyRef reads proxy's GUID and endpoint in one consistent
// snapshot: a concurrent retarget (migration) can never hand out the
// GUID of one home and the endpoint of another.  It allocates nothing:
// it runs on every proxy call.
func readProxyRef(proxy *vm.Object) (id, endpoint string) {
	names := [2]string{transform.ProxyFieldGUID, transform.ProxyFieldEndpoint}
	var ref [2]vm.Value
	proxy.ReadFields(names[:], ref[:])
	return ref[0].S, ref[1].S
}

// setProxyRef retargets proxy at the object id served at endpoint, both
// written in one atomic update.  Every generated proxy class declares
// the pair as strings, so the write is never refused.
func setProxyRef(proxy *vm.Object, id, endpoint string) {
	_ = proxy.SetFields(proxyRef(id, endpoint))
}

// proxyRef is a proxy's reference as one write: the values setProxyRef
// stores, and those a morph into a proxy starts with.
func proxyRef(id, endpoint string) map[string]vm.Value {
	return map[string]vm.Value{
		transform.ProxyFieldGUID:     vm.StringV(id),
		transform.ProxyFieldEndpoint: vm.StringV(endpoint),
	}
}

// servesEndpoint reports whether endpoint is one of this node's own
// (lock-free: reads the published endpoint snapshot — this runs on
// every proxy invocation to detect self-collapse).
func (n *Node) servesEndpoint(endpoint string) bool {
	for _, s := range n.served() {
		if s.ep == endpoint {
			return true
		}
	}
	return false
}

// marshalFields encodes an object's field snapshot for shipping, each
// value marshalled for viaProto — the one state codec migration and
// replication share.
func (n *Node) marshalFields(fields map[string]vm.Value, viaProto string) ([]wire.NamedValue, error) {
	fvs := make([]wire.NamedValue, 0, len(fields))
	for name, val := range fields {
		mv, err := n.marshalValue(val, viaProto)
		if err != nil {
			return nil, fmt.Errorf("node %s: marshal field %s: %w", n.name, name, err)
		}
		fvs = append(fvs, wire.NamedValue{Name: name, Value: mv})
	}
	return fvs, nil
}

// setFields unmarshals shipped field state into obj, marshalFields'
// inverse.  Each field must be one obj's class declares, holding a value
// of the declared type's kind (null for a reference or array field):
// anything else is an error for the peer and leaves obj as it was.
func (n *Node) setFields(env *vm.Env, obj *vm.Object, fields []wire.NamedValue) error {
	vals := make(map[string]vm.Value, len(fields))
	for _, f := range fields {
		fv, err := n.unmarshalValue(env, f.Value)
		if err != nil {
			return err
		}
		vals[f.Name] = fv
	}
	if err := obj.SetFields(vals); err != nil {
		return fmt.Errorf("node %s: %w", n.name, err)
	}
	return nil
}
