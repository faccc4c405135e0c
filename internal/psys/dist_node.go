package psys

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"optimus/internal/speedfit"
)

// coordClient is a gob request/response client to the coordinator.
type coordClient struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// DialCoordinator connects to a coordinator process.
func DialCoordinator(addr string) (*coordClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("psys: dial coordinator %s: %w", addr, err)
	}
	return &coordClient{
		conn: conn,
		enc:  gob.NewEncoder(conn),
		dec:  gob.NewDecoder(conn),
	}, nil
}

func (c *coordClient) call(req distRequest) (distResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(&req); err != nil {
		return distResponse{}, fmt.Errorf("psys: coordinator send: %w", err)
	}
	var resp distResponse
	if err := c.dec.Decode(&resp); err != nil {
		return distResponse{}, fmt.Errorf("psys: coordinator recv: %w", err)
	}
	if resp.Err != "" {
		return distResponse{}, fmt.Errorf("psys: coordinator: %s", resp.Err)
	}
	return resp, nil
}

// Status fetches the coordinator's aggregate view remotely.
func (c *coordClient) Status() (DistStatus, error) {
	resp, err := c.call(distRequest{Op: "status"})
	if err != nil {
		return DistStatus{}, err
	}
	if resp.Status == nil {
		return DistStatus{}, fmt.Errorf("psys: empty status")
	}
	return *resp.Status, nil
}

// Close releases the control connection.
func (c *coordClient) Close() error { return c.conn.Close() }

// DistServer is one parameter-server process.
type DistServer struct {
	Index     int
	srv       *Server
	tcp       *TCPServer
	coordAddr string
}

// donePoll is how often DistServer.Wait asks the coordinator for its status.
const donePoll = 100 * time.Millisecond

// RunDistServer registers with the coordinator, hosts the assigned blocks
// and serves them over TCP on serveAddr (use "127.0.0.1:0").
func RunDistServer(coordAddr, serveAddr string) (*DistServer, error) {
	cc, err := DialCoordinator(coordAddr)
	if err != nil {
		return nil, err
	}
	defer cc.Close()

	// Phase 1: fetch the job spec (mode, learning rate, barrier width), so
	// the transport can come up before the slot is claimed.
	specResp, err := cc.call(distRequest{Op: "server-spec"})
	if err != nil {
		return nil, err
	}
	spec := specResp.Server
	if spec == nil {
		return nil, fmt.Errorf("psys: empty server spec")
	}
	srv, err := NewServer(spec.Mode, spec.LR, spec.Workers)
	if err != nil {
		return nil, err
	}
	if spec.Momentum > 0 {
		if err := srv.SetMomentum(spec.Momentum); err != nil {
			return nil, err
		}
	}
	ts, err := ServeTCP(srv, serveAddr)
	if err != nil {
		srv.Close()
		return nil, err
	}

	// Phase 2: claim a slot with the live address; receive the §5.3 block
	// assignment and initial parameters.
	resp, err := cc.call(distRequest{Op: "register-server", ServerAddr: ts.Addr()})
	if err != nil {
		_ = ts.Close()
		return nil, err
	}
	asn := resp.Server
	if asn == nil {
		_ = ts.Close()
		return nil, fmt.Errorf("psys: empty server assignment")
	}
	for _, b := range asn.Blocks {
		if err := srv.Host(b.ID, b.Params); err != nil {
			_ = ts.Close()
			return nil, err
		}
	}
	return &DistServer{Index: asn.Index, srv: srv, tcp: ts, coordAddr: coordAddr}, nil
}

// Wait blocks until the job is over: it polls the coordinator's status op
// until every worker has reported done (or the coordinator is closing), or
// until ctx ends. The server keeps serving meanwhile; Close it afterwards.
func (s *DistServer) Wait(ctx context.Context) error {
	cc, err := DialCoordinator(s.coordAddr)
	if err != nil {
		return err
	}
	defer cc.Close()
	tick := time.NewTicker(donePoll)
	defer tick.Stop()
	for {
		st, err := cc.Status()
		if err != nil {
			return err
		}
		if st.Done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Addr is the server's transport address.
func (s *DistServer) Addr() string { return s.tcp.Addr() }

// Close stops the server.
func (s *DistServer) Close() error { return s.tcp.Close() }

// DistWorker is one worker process.
type DistWorker struct {
	ID     int
	worker *Worker
	coord  *coordClient
	model  Model
}

// RunDistWorker registers with the coordinator (blocking until all servers
// are up), dials every parameter server and returns a ready-to-train worker.
func RunDistWorker(coordAddr string) (*DistWorker, error) {
	cc, err := DialCoordinator(coordAddr)
	if err != nil {
		return nil, err
	}
	resp, err := cc.call(distRequest{Op: "register-worker"})
	if err != nil {
		cc.Close()
		return nil, err
	}
	asn := resp.Worker
	if asn == nil {
		cc.Close()
		return nil, fmt.Errorf("psys: empty worker assignment")
	}
	model, err := ModelFromSpec(asn.ModelSpec)
	if err != nil {
		cc.Close()
		return nil, err
	}
	layout, err := NewBlockLayout(asn.LayoutSizes)
	if err != nil {
		cc.Close()
		return nil, err
	}
	conns := make([]ServerConn, len(asn.ServerAddrs))
	for i, addr := range asn.ServerAddrs {
		conn, err := DialServer(addr)
		if err != nil {
			cc.Close()
			for _, c := range conns[:i] {
				_ = c.Close()
			}
			return nil, err
		}
		conns[i] = conn
	}
	w := newWorker(asn.ID, model, layout, asn.Owners, conns,
		Batch{X: asn.ShardX, Y: asn.ShardY}, asn.BatchSize, asn.Mode == speedfit.Sync)
	return &DistWorker{ID: asn.ID, worker: w, coord: cc, model: model}, nil
}

// Steps drives n training steps, reporting loss and compute time to the
// coordinator after each (the §3.1 loss stream + §5.2 speed signal).
func (w *DistWorker) Steps(n int) (lastLoss float64, err error) {
	for s := 0; s < n; s++ {
		loss, err := w.worker.Step()
		if err != nil {
			return 0, err
		}
		lastLoss = loss
		if _, err := w.coord.call(distRequest{
			Op: "report", WorkerID: w.ID, Step: w.worker.Round(),
			Loss: loss, ComputeNS: int64(w.worker.lastCompute / time.Nanosecond),
		}); err != nil {
			return 0, err
		}
	}
	return lastLoss, nil
}

// Close reports the worker done to the coordinator and tears it down.
func (w *DistWorker) Close() error {
	w.worker.closeConns()
	_, err := w.coord.call(distRequest{Op: "worker-done", WorkerID: w.ID})
	return errors.Join(err, w.coord.Close())
}
