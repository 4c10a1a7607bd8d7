#include "net/client.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/strutil.hh"

namespace dlw
{
namespace net
{

namespace
{

constexpr std::size_t kMaxLineBytes = std::size_t(1) << 16;

std::string
errnoText(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/** A blocking call timed out under SO_SNDTIMEO/SO_RCVTIMEO. */
bool
timedOut()
{
    return errno == EAGAIN || errno == EWOULDBLOCK;
}

} // anonymous namespace

void
Client::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    buf_.clear();
}

Status
Client::connect(const std::string &host, int port,
                const ClientTimeouts &timeouts)
{
    close();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return Status::invalidArgument(
            "bad host '" + host + "' (want a dotted IPv4 address)");
    }
    const int fd = ::socket(
        AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return Status::ioError(errnoText("socket"));
    fd_ = fd;

    // Non-blocking connect + poll bounds the handshake; the socket
    // goes back to blocking for the session itself.
    const std::string where = host + ":" + std::to_string(port);
    int rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    int err = rc < 0 ? errno : 0;
    if (rc < 0 && err == EINPROGRESS) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        const int wait_ms = timeouts.connect_ms == 0
            ? -1
            : static_cast<int>(timeouts.connect_ms);
        do {
            rc = ::poll(&pfd, 1, wait_ms);
        } while (rc < 0 && errno == EINTR);
        if (rc == 0) {
            close();
            return Status::unavailable(
                "connect " + where + ": timed out after " +
                std::to_string(timeouts.connect_ms) + "ms");
        }
        socklen_t len = sizeof(err);
        if (rc < 0 ||
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
            err = errno;
    }
    if (err != 0) {
        close();
        return Status::unavailable("connect " + where + ": " +
                                   std::strerror(err));
    }

    const int flags = ::fcntl(fd, F_GETFL);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (timeouts.io_ms != 0) {
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(timeouts.io_ms / 1000);
        tv.tv_usec = static_cast<suseconds_t>(timeouts.io_ms % 1000 *
                                              1000);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    return Status();
}

Status
Client::sendAll(std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t w =
            ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            // The server vanishing mid-payload is the same failure
            // the read side reports as a truncated reply.
            if (errno == EPIPE || errno == ECONNRESET)
                return Status::truncated(
                    "server closed the connection mid-stream");
            return Status::ioError(
                timedOut() ? std::string("write: timed out")
                           : errnoText("write"));
        }
        bytes.remove_prefix(static_cast<std::size_t>(w));
    }
    return Status();
}

void
Client::shutdownWrite()
{
    ::shutdown(fd_, SHUT_WR);
}

StatusOr<std::size_t>
Client::fill()
{
    char chunk[64 * 1024];
    for (;;) {
        const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (r >= 0) {
            buf_.append(chunk, static_cast<std::size_t>(r));
            return static_cast<std::size_t>(r);
        }
        if (errno == EINTR)
            continue;
        if (timedOut())
            return Status::ioError("read: timed out");
        return Status::truncated(errnoText("read"));
    }
}

StatusOr<std::string>
Client::readLine()
{
    for (;;) {
        const std::size_t eol = buf_.find('\n');
        if (eol != std::string::npos) {
            std::string line = buf_.substr(0, eol);
            buf_.erase(0, eol + 1);
            return line;
        }
        if (buf_.size() > kMaxLineBytes)
            return Status::corruptData("oversized response line");
        StatusOr<std::size_t> got = fill();
        if (!got.ok())
            return got.status();
        if (got.value() == 0)
            return Status::truncated(
                "server closed the connection mid-line");
    }
}

StatusOr<std::string>
Client::readExact(std::size_t n)
{
    while (buf_.size() < n) {
        StatusOr<std::size_t> got = fill();
        if (!got.ok())
            return got.status();
        if (got.value() == 0) {
            return Status::truncated(
                "server closed the connection after " +
                std::to_string(buf_.size()) + " of " +
                std::to_string(n) + " bytes");
        }
    }
    std::string out = buf_.substr(0, n);
    buf_.erase(0, n);
    return out;
}

StatusOr<std::string>
Client::readToEof()
{
    for (;;) {
        StatusOr<std::size_t> got = fill();
        if (!got.ok())
            return got.status();
        if (got.value() == 0)
            return std::exchange(buf_, std::string());
    }
}

StatusOr<std::string>
httpGet(const std::string &host, int port, const std::string &path,
        const ClientTimeouts &timeouts)
{
    Client c;
    Status s = c.connect(host, port, timeouts);
    if (s.ok())
        s = c.sendAll("GET " + path + " HTTP/1.1\r\nHost: " + host +
                      "\r\nConnection: close\r\n\r\n");
    if (!s.ok())
        return s;
    StatusOr<std::string> resp = c.readToEof();
    if (!resp.ok())
        return resp.status();
    const std::string &r = resp.value();
    const std::size_t eol = r.find("\r\n");
    const std::size_t split = r.find("\r\n\r\n");
    if (eol == std::string::npos || split == std::string::npos)
        return Status::corruptData("malformed HTTP response to GET " +
                                   path);
    const std::string status_line = r.substr(0, eol);
    if (status_line.find(" 200 ") == std::string::npos)
        return Status::ioError("GET " + path + ": " + status_line);
    return r.substr(split + 4);
}

namespace
{

/** True for a `DLWR1 error <message>` line; sets `message`. */
bool
reportError(const std::string &line, std::string &message)
{
    const std::string prefix = std::string(kReportMagic) + " error";
    if (line != prefix && !startsWith(line, prefix + " "))
        return false;
    message = line.substr(std::min(line.size(), prefix.size() + 1));
    return true;
}

} // anonymous namespace

Status
StreamClient::open(const std::string &host, int port,
                   const StreamHello &hello,
                   const ClientTimeouts &timeouts)
{
    format_ = hello.format;
    session_.clear();
    server_ack_ns_ = 0;
    Status s = conn_.connect(host, port, timeouts);
    if (s.ok())
        s = conn_.sendAll(renderStreamHello(hello.format, hello.tenant,
                                            hello.klass,
                                            hello.trace_id));
    if (!s.ok())
        return s;
    StatusOr<std::string> ack = conn_.readLine();
    if (!ack.ok())
        return ack.status();
    std::string message;
    if (reportError(ack.value(), message)) {
        // Shed before admission: worth retrying, unlike a refusal of
        // the session itself.
        if (message == "overloaded")
            return Status::unavailable("server overloaded");
        if (message == "throttled")
            return Status::unavailable("server throttled this class");
        return Status::failedPrecondition("server error: " + message);
    }
    std::string_view f[4];
    const std::size_t n = splitFields(ack.value(), ' ', f, 4);
    // The optional 4th field is the server's monotonic clock at the
    // ack, the other half of a client/server clock-offset estimate.
    if ((n != 3 && n != 4) || f[0] != kHelloMagic || f[1] != "ok" ||
        (n == 4 && !tryParseUint(f[3], server_ack_ns_))) {
        return Status::corruptData("bad hello ack '" + ack.value() +
                                   "'");
    }
    session_ = std::string(f[2]);
    return Status();
}

Status
StreamClient::send(std::string_view bytes)
{
    if (format_ == StreamFormat::kCsv)
        return conn_.sendAll(bytes);
    while (!bytes.empty()) {
        const std::size_t n = std::min(bytes.size(), kMaxFrameBytes);
        framed_.clear();
        appendFrame(framed_, bytes.data(), n);
        Status s = conn_.sendAll(framed_);
        if (!s.ok())
            return s;
        bytes.remove_prefix(n);
    }
    return Status();
}

Status
StreamClient::finish()
{
    if (format_ == StreamFormat::kBin) {
        framed_.clear();
        appendEndFrame(framed_);
        Status s = conn_.sendAll(framed_);
        if (!s.ok())
            return s;
    }
    conn_.shutdownWrite();
    return Status();
}

StatusOr<std::string>
StreamClient::report()
{
    StatusOr<std::string> line = conn_.readLine();
    if (!line.ok())
        return line.status();
    std::string message;
    if (reportError(line.value(), message))
        return Status::failedPrecondition("server error: " + message);
    std::string_view f[3];
    std::uint64_t nbytes = 0;
    if (splitFields(line.value(), ' ', f, 3) != 3 ||
        f[0] != kReportMagic || f[1] != "ok" ||
        !tryParseUint(f[2], nbytes)) {
        return Status::corruptData("bad response '" + line.value() +
                                   "'");
    }
    return conn_.readExact(static_cast<std::size_t>(nbytes));
}

StatusOr<std::string>
streamReport(const std::string &host, int port,
             const StreamHello &hello, std::string_view payload,
             const ClientTimeouts &timeouts)
{
    StreamClient sc;
    Status s = sc.open(host, port, hello, timeouts);
    if (s.ok())
        s = sc.send(payload);
    if (s.ok())
        s = sc.finish();
    if (!s.ok())
        return s;
    return sc.report();
}

} // namespace net
} // namespace dlw
