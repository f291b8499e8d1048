package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"example.com/scar/internal/serve"
)

// daemon is the scarserve HTTP API of a serve.Service on a loopback
// listener in this process, with a keep-alive client limited to a fixed
// number of connections. The service behind the handler can be swapped
// between requests (a fresh cache over the same warm cost database).
type daemon struct {
	backend atomic.Pointer[backend]
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client
}

func startDaemon(svc *serve.Service, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	d.swap(svc)
	d.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d.backend.Load().h.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return d, nil
}

// backend is the service answering and its handler, built once.
type backend struct {
	svc *serve.Service
	h   http.Handler
}

// service returns the service currently answering.
func (d *daemon) service() *serve.Service { return d.backend.Load().svc }

// swap installs another service; callers swap only while no request is
// in flight.
func (d *daemon) swap(svc *serve.Service) { d.backend.Store(&backend{svc: svc, h: svc.Handler()}) }

// post sends one request and returns the status and body.
func (d *daemon) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// close stops the server and waits until its accept loop has returned.
func (d *daemon) close() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
