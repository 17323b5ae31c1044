package korapi

import (
	"fmt"
	"strconv"
	"strings"
)

// RequestFromParams decodes a Request from URL query parameters — the GET
// /v1/route spelling of the wire contract, shared by korserve and korrouter
// so both ends of a cluster parse identically. Every malformed value is a
// hard bad_request error; nothing is silently dropped.
func RequestFromParams(qv map[string][]string) (Request, *Error) {
	get := func(key string) string {
		if vs := qv[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	badParam := func(key, val string) *Error {
		return &Error{
			Code:    CodeBadRequest,
			Message: fmt.Sprintf("malformed parameter %s=%q", key, val),
		}
	}

	var req Request
	for _, key := range []string{"from", "to"} {
		v := get(key)
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, badParam(key, v)
		}
		if key == "from" {
			req.From = n
		} else {
			req.To = n
		}
	}

	budget, err := strconv.ParseFloat(get("budget"), 64)
	if err != nil {
		return req, badParam("budget", get("budget"))
	}
	req.Budget = budget

	for _, kw := range strings.Split(get("keywords"), ",") {
		if kw = strings.TrimSpace(kw); kw != "" {
			req.Keywords = append(req.Keywords, kw)
		}
	}
	if len(req.Keywords) == 0 {
		return req, &Error{Code: CodeBadRequest, Message: "at least one keyword is required"}
	}

	req.Algorithm = get("algorithm")
	if v := get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return req, badParam("k", v)
		}
		req.K = k
	}
	if v := get("metrics"); v != "" {
		m, err := strconv.ParseBool(v)
		if err != nil {
			return req, badParam("metrics", v)
		}
		req.Metrics = m
	}

	// Flat tuning overrides. Out-of-domain values pass through here and are
	// rejected by Options.Validate inside Engine.Run.
	var opts Options
	any := false
	for _, p := range []struct {
		key string
		dst **float64
	}{
		{"epsilon", &opts.Epsilon}, {"beta", &opts.Beta}, {"alpha", &opts.Alpha},
	} {
		if v := get(p.key); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, badParam(p.key, v)
			}
			*p.dst = &f
			any = true
		}
	}
	if v := get("width"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, badParam("width", v)
		}
		opts.Width = &n
		any = true
	}
	if any {
		req.Options = &opts
	}
	return req, nil
}
