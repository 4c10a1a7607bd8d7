/**
 * @file
 * The one blocking client for dlwd: `dlwtool stream`/`top` and the
 * daemon benches all speak to the server through it.
 *
 * The daemon side never blocks (one epoll loop, non-blocking
 * sockets).  A client is one caller waiting on one connection, so it
 * does block, but only within the deadlines it is given:
 *
 *   connect_ms  caps connect(2) (non-blocking connect + poll)
 *   io_ms       caps every blocking send/recv call
 *               (SO_SNDTIMEO/SO_RCVTIMEO)
 *
 * Zero means no cap, the plain-socket behaviour.
 *
 * Failures come back as Status codes that callers map to policy:
 *
 *   Unavailable         connection-level and worth retrying: connect
 *                       refused or timed out, or a shed at admission
 *                       (`DLWR1 error overloaded` / `throttled`)
 *   Truncated           the server closed the connection mid-session
 *   FailedPrecondition  the server refused the session
 *                       (`DLWR1 error <message>`)
 *   CorruptData         a reply that is not the protocol
 *   IoError             anything else, an I/O timeout included
 */

#ifndef DLW_NET_CLIENT_HH
#define DLW_NET_CLIENT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hh"
#include "net/wire.hh"

namespace dlw
{
namespace net
{

/** Client deadlines in milliseconds; 0 waits as long as it takes. */
struct ClientTimeouts
{
    std::uint64_t connect_ms = 0;
    std::uint64_t io_ms = 0;
};

/**
 * One blocking TCP connection with buffered line reads.
 */
class Client
{
  public:
    Client() = default;
    ~Client() { close(); }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to `host` (dotted IPv4) and `port`. */
    Status connect(const std::string &host, int port,
                   const ClientTimeouts &timeouts);

    /** Send every byte. */
    Status sendAll(std::string_view bytes);

    /** Half-close: the server sees EOF, replies still flow back. */
    void shutdownWrite();

    /** One '\n'-terminated line, newline stripped (64 KiB cap). */
    StatusOr<std::string> readLine();

    /** Exactly `n` bytes. */
    StatusOr<std::string> readExact(std::size_t n);

    /** Everything until the server closes. */
    StatusOr<std::string> readToEof();

    void close();

  private:
    /** One recv into buf_; 0 on EOF. */
    StatusOr<std::size_t> fill();

    int fd_ = -1;
    std::string buf_; ///< received, not yet returned
};

/**
 * `GET path` with `Connection: close`; the body of a 200 response,
 * an error Status for anything else.
 */
StatusOr<std::string> httpGet(const std::string &host, int port,
                              const std::string &path,
                              const ClientTimeouts &timeouts);

/**
 * One DLWS1 session, step by step, so a caller can time each phase:
 * open() (connect, hello, ack), send() the payload, finish(), then
 * report().
 */
class StreamClient
{
  public:
    /**
     * Connect, send the hello and read the ack.  Takes a 3-field
     * (`DLWS1 ok <id>`) or 4-field (`... <server_ns>`) ack.
     */
    Status open(const std::string &host, int port,
                const StreamHello &hello,
                const ClientTimeouts &timeouts);

    /** Session id from the ack. */
    const std::string &session() const { return session_; }

    /** Server clock stamped on the ack; 0 for a 3-field ack. */
    std::uint64_t serverAckNs() const { return server_ack_ns_; }

    /** Payload bytes: raw for csv, length-prefixed frames for bin. */
    Status send(std::string_view bytes);

    /** End the payload (bin adds the end frame) and half-close. */
    Status finish();

    /** `DLWR1 ok <n>` followed by exactly n report bytes. */
    StatusOr<std::string> report();

  private:
    Client conn_;
    StreamFormat format_ = StreamFormat::kCsv;
    std::string session_;
    std::uint64_t server_ack_ns_ = 0;
    std::string framed_; ///< reused bin framing buffer
};

/** A whole session: open, send `payload`, finish, report. */
StatusOr<std::string> streamReport(const std::string &host, int port,
                                   const StreamHello &hello,
                                   std::string_view payload,
                                   const ClientTimeouts &timeouts);

} // namespace net
} // namespace dlw

#endif // DLW_NET_CLIENT_HH
