package transport

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"

	"rafda/internal/wire"
)

// wireReq/wireResp alias the wire types to keep httpBase signatures short.
type (
	wireReq  = wire.Request
	wireResp = wire.Response
)

// soapEnvelope wraps messages in a SOAP-style XML envelope, as the
// paper's A_O_Proxy_SOAP family would (a proxy here reaches soap through
// its endpoint).
type soapEnvelope[T any] struct {
	XMLName xml.Name `xml:"Envelope"`
	NS      string   `xml:"xmlns,attr"`
	Body    soapBody[T]
}

type soapBody[T any] struct {
	XMLName xml.Name `xml:"Body"`
	Payload T        `xml:"Payload"`
}

const soapNS = "urn:rafda:soap:1"

func soapEncode[T any](w io.Writer, payload T) error {
	env := soapEnvelope[T]{NS: soapNS, Body: soapBody[T]{Payload: payload}}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	return xml.NewEncoder(w).Encode(env)
}

func soapDecode[T any](r io.Reader) (T, error) {
	var env soapEnvelope[T]
	err := xml.NewDecoder(r).Decode(&env)
	if err == nil && env.NS != soapNS {
		err = fmt.Errorf("bad soap namespace %q", env.NS)
	}
	return env.Body.Payload, err
}

// NewSOAP returns the SOAP (XML over HTTP) transport.
func NewSOAP(opts Options) Transport {
	return &httpBase{
		proto:       "soap",
		contentType: "text/xml; charset=utf-8",
		opts:        opts,
		encodeReq: func(w io.Writer, r *wireReq) error {
			return soapEncode(w, r)
		},
		decodeReq: func(rd io.Reader) (*wireReq, error) {
			return soapDecode[*wireReq](rd)
		},
		encodeResp: func(w io.Writer, r *wireResp) error {
			return soapEncode(w, r)
		},
		decodeResp: func(rd io.Reader) (*wireResp, error) {
			return soapDecode[*wireResp](rd)
		},
	}
}

// NewJSON returns the JSON-RPC-style (JSON over HTTP) transport.
func NewJSON(opts Options) Transport {
	return &httpBase{
		proto:       "json",
		contentType: "application/json",
		opts:        opts,
		encodeReq: func(w io.Writer, r *wireReq) error {
			return json.NewEncoder(w).Encode(r)
		},
		decodeReq: func(rd io.Reader) (*wireReq, error) {
			req := &wireReq{}
			err := json.NewDecoder(rd).Decode(req)
			return req, err
		},
		encodeResp: func(w io.Writer, r *wireResp) error {
			return json.NewEncoder(w).Encode(r)
		},
		decodeResp: func(rd io.Reader) (*wireResp, error) {
			resp := &wireResp{}
			err := json.NewDecoder(rd).Decode(resp)
			return resp, err
		},
	}
}
