package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"
)

// client owns one keep-alive connection per generator worker.
type client struct {
	url   string
	conns []*http.Client
}

func newClient(url string, n int) *client {
	c := &client{url: url}
	for i := 0; i < n; i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return c
}

func (c *client) close() {
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
}

// wireResp is the subset of the handler's responses the benchmark reads.
type wireResp struct {
	IDs   []int `json:"ids"`
	Stats struct {
		Candidates int   `json:"candidates"`
		Hits       int   `json:"cache_hits"`
		Pruned     int   `json:"pruned"`
		TrueHits   int   `json:"true_hits"`
		Remaining  int   `json:"remaining"`
		Fetched    int   `json:"fetched"`
		PageReads  int64 `json:"page_reads"`
	} `json:"stats"`
	ID int `json:"id"` // /insert
}

// post sends one request on connection w. req > 0 tags it for the traced
// run. A transport error reports status 0.
func (c *client) post(w int, path string, body []byte, req int64) (int, wireResp, error) {
	var out wireResp
	hr, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req > 0 {
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := c.conns[w].Do(hr)
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, out, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(b, &out)
	}
	return resp.StatusCode, out, err
}

// searchBody encodes a /search request. Floats are written the way
// encoding/json writes float32s.
func searchBody(v []float32, k int) []byte {
	b := append([]byte(nil), `{"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"vector":`...)
	b = appendVec(b, v)
	return append(b, '}')
}

func insertBody(v []float32) []byte {
	b := append([]byte(nil), `{"vector":`...)
	b = appendVec(b, v)
	return append(b, '}')
}

func appendVec(b []byte, v []float32) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
	}
	return append(b, ']')
}
