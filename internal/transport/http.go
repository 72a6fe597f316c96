package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// httpBase provides the shared HTTP plumbing for the SOAP and JSON
// transports: each Call is one POST to /rafda on a keep-alive client.
type httpBase struct {
	proto       string
	contentType string
	opts        Options
	encodeReq   func(io.Writer, *wireReq) error
	decodeReq   func(io.Reader) (*wireReq, error)
	encodeResp  func(io.Writer, *wireResp) error
	decodeResp  func(io.Reader) (*wireResp, error)
}

func (t *httpBase) Proto() string { return t.proto }

func (t *httpBase) Listen(addr string, h Handler) (Server, error) {
	l, err := t.opts.listen(addr)
	if err != nil {
		return nil, fmt.Errorf("%s listen: %w", t.proto, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/rafda", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		// The body is capped at rrp's frame limit, so no carrier
		// decodes more than any other accepts.
		req, err := t.decodeReq(http.MaxBytesReader(w, r.Body, maxFrame))
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		if err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp := h(req)
		w.Header().Set("Content-Type", t.contentType)
		var buf bytes.Buffer
		if err := t.encodeResp(&buf, resp); err != nil {
			http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(buf.Bytes())
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(l) }()
	return &httpServer{proto: t.proto, l: l, srv: srv}, nil
}

type httpServer struct {
	proto string
	l     net.Listener
	srv   *http.Server
}

func (s *httpServer) Endpoint() string { return JoinEndpoint(s.proto, s.l.Addr().String()) }
func (s *httpServer) Close() error     { return s.srv.Close() }

func (t *httpBase) Dial(endpoint string) (Client, error) {
	proto, addr, err := SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	if proto != t.proto {
		return nil, fmt.Errorf("%s transport cannot dial %q", t.proto, endpoint)
	}
	dial := t.opts.Profile.Dialer(func(network, a string) (net.Conn, error) {
		return net.Dial(network, a)
	})
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Dial:                dial,
			MaxIdleConnsPerHost: 16,
		},
	}
	return &httpClient{base: t, url: "http://" + addr + "/rafda", hc: hc}, nil
}

type httpClient struct {
	base *httpBase
	url  string
	hc   *http.Client
}

func (c *httpClient) Call(req *wireReq) (*wireResp, error) {
	var buf bytes.Buffer
	if err := c.base.encodeReq(&buf, req); err != nil {
		return nil, fmt.Errorf("%s encode: %w", c.base.proto, err)
	}
	httpResp, err := c.hc.Post(c.url, c.base.contentType, &buf)
	if err != nil {
		return nil, fmt.Errorf("%s post: %w", c.base.proto, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return nil, fmt.Errorf("%s http %d: %s", c.base.proto, httpResp.StatusCode, body)
	}
	resp, err := c.base.decodeResp(httpResp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s decode: %w", c.base.proto, err)
	}
	return resp, nil
}

func (c *httpClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
