package korapi

import (
	"encoding/json"
	"log"
	"net/http"
	"strconv"
)

// WriteJSON emits v as the JSON response body, newline-terminated as
// json.Encoder writes it. v is encoded before anything is written, so a value
// that cannot be encoded (a NaN or an infinite float, say) is answered with
// a 500 internal envelope instead of the implicit empty 200 a half-written
// stream would leave.
func WriteJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		log.Printf("korapi: encoding response: %v", err)
		WriteError(w, &Error{Code: CodeInternal, Message: "encoding response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(body, '\n')); err != nil {
		log.Printf("korapi: writing response: %v", err)
	}
}

// WriteError emits the error envelope with the code's HTTP status. Both
// korserve and korrouter answer through this one function, so every server
// in a cluster sheds with byte-identical envelopes. CodeCanceled gets its
// 499 like any other code: the original client has usually gone, but
// returning without writing would make net/http emit an implicit 200 with an
// empty body — and a proxy-initiated cancel, or a canceled batch
// sub-context, leaves a very-much-alive reader that must not mistake an
// aborted search for an empty success.
func WriteError(w http.ResponseWriter, apiErr *Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(apiErr.Code.HTTPStatus())
	if err := json.NewEncoder(w).Encode(ErrorEnvelope{Error: *apiErr}); err != nil {
		log.Printf("korapi: encoding error response: %v", err)
	}
}

// StatusLabel maps an HTTP status code onto the closed label set the
// servers' request counters use: the exact statuses the korapi error
// taxonomy can emit (see ErrorCode.HTTPStatus) plus 200, with everything
// else collapsed into its class bucket ("2xx", "4xx", ...). Handlers must
// never label with strconv.Itoa(status): a misbehaving proxy or a future
// handler writing ad-hoc statuses would mint unbounded time series.
//
// korvet:labels — every return below is a literal from the closed set.
func StatusLabel(status int) string {
	switch status {
	case 200:
		return "200"
	case 400:
		return "400"
	case 404:
		return "404"
	case 422:
		return "422"
	case 429:
		return "429"
	case 499:
		return "499"
	case 500:
		return "500"
	case 503:
		return "503"
	case 504:
		return "504"
	}
	switch {
	case status >= 200 && status < 300:
		return "2xx"
	case status >= 300 && status < 400:
		return "3xx"
	case status >= 400 && status < 500:
		return "4xx"
	case status >= 500 && status < 600:
		return "5xx"
	}
	return "other"
}

// WriteErrorRetry is WriteError plus a Retry-After hint, for the shedding
// codes (overloaded, unavailable) whose contract promises the header.
func WriteErrorRetry(w http.ResponseWriter, apiErr *Error, retryAfterSeconds int) {
	if retryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	WriteError(w, apiErr)
}
