package load

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// requestTimeout bounds one exchange on a Conn.
const requestTimeout = 30 * time.Second

// Conn is one keep-alive HTTP/1.1 connection for POST /v1/route, driven
// entirely from the calling goroutine: write the request, block on the
// response. net/http's client hands every exchange through two more
// goroutines per connection; on the two cores the servers under test share
// with the benchmark that cost 0.07-0.15 ms a request — half of a result-cache
// hit's latency — and a quarter of city-uniform's throughput. A Conn is not
// safe for concurrent use.
type Conn struct {
	host string
	c    net.Conn // nil until the first Post and after a failed one
	br   *bufio.Reader
	req  []byte
}

// NewConn prepares a connection to the server at baseURL; it is dialled by
// the first Post.
func NewConn(baseURL string) (*Conn, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("load: %q is not an http://host:port URL", baseURL)
	}
	return &Conn{host: u.Host}, nil
}

// Close closes the connection; a later Post dials a new one.
func (c *Conn) Close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// Post sends one POST /v1/route and returns the status and the whole
// response body. After an error the connection is closed.
func (c *Conn) Post(body []byte) (status int, respBody []byte, err error) {
	if c.c == nil {
		if c.c, err = net.DialTimeout("tcp", c.host, requestTimeout); err != nil {
			c.c = nil
			return 0, nil, err
		}
		c.br = bufio.NewReader(c.c)
	}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	c.req = append(c.req[:0], "POST /v1/route HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.host...)
	c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	if _, err := c.c.Write(c.req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	respBody, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		c.Close()
	}
	return resp.StatusCode, respBody, err
}
