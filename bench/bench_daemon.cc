/**
 * @file
 * M6: the daemon under sustained connections and under overload.
 *
 * Two behaviours are measured.  First, sustained service: waves of
 * concurrent streaming clients hit one dlwd and every per-client
 * report must come back byte-identical, with per-client throughput
 * (records served per second) recorded.  Second, shedding: with the
 * connection budget deliberately filled by idle sessions, every
 * further attempt must be refused with the overload error rather
 * than queued, and the refusal rate is recorded.
 *
 * The BenchReportGuard snapshot carries the daemon's own counters
 * (daemon.sessions.*, net.shed.*, daemon.fold_seconds) alongside the
 * wall numbers printed here, so BENCH_daemon.json is the perf
 * trajectory for the network layer.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchutil.hh"
#include "common/rng.hh"
#include "daemon/server.hh"
#include "net/client.hh"
#include "obs/export.hh"
#include "synth/workload.hh"
#include "trace/csvio.hh"

using namespace dlw;

namespace
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * One full csv streaming session; returns the report text, or the
 * empty string on any protocol failure.
 */
std::string
streamOnce(std::uint16_t port, const std::string &payload,
           const std::string &tenant)
{
    net::StreamHello hello;
    hello.tenant = tenant;
    StatusOr<std::string> report = net::streamReport(
        "127.0.0.1", port, hello, payload, net::ClientTimeouts{});
    return report.ok() ? report.value() : std::string();
}

} // anonymous namespace

int
main()
{
    obs::BenchReportGuard obs_guard("daemon");
    daemon::registerNetMetrics();
    daemon::registerDaemonMetrics();

    std::cout << "Daemon under load: sustained sessions and "
                 "shedding (M6)\n\n";
    bool ok = true;

    // One oltp trace shared by every client; heavy enough that the
    // fold dominates framing overhead.
    Rng rng(bench::kSeed);
    synth::Workload w = synth::Workload::makeOltp(1 << 24, 200.0, 11);
    const trace::MsTrace tr =
        w.generate(rng, "m6-drive", 0, 2 * kMinute);
    std::ostringstream csv;
    trace::writeMsCsv(csv, tr);
    const std::string payload = csv.str();
    const std::size_t n_records = tr.size();

    daemon::ServerConfig cfg;
    cfg.port = 0;
    cfg.max_connections = 128;
    daemon::Server server(cfg);
    if (!server.start().ok()) {
        std::cerr << "FAIL: server start\n";
        return 1;
    }
    std::thread loop([&server] { (void)server.run(); });

    // ---- Sustained waves of concurrent clients -------------------
    constexpr int kWaves = 4;
    constexpr int kClientsPerWave = 16;
    const std::uint16_t port = server.port();

    std::string reference;
    int mismatches = 0;
    const double t0 = nowSeconds();
    for (int wave = 0; wave < kWaves; ++wave) {
        std::vector<std::string> reports(kClientsPerWave);
        std::vector<std::thread> clients;
        clients.reserve(kClientsPerWave);
        for (int c = 0; c < kClientsPerWave; ++c)
            clients.emplace_back([&, c] {
                reports[static_cast<std::size_t>(c)] = streamOnce(
                    port, payload, "bench" + std::to_string(c));
            });
        for (auto &t : clients)
            t.join();
        for (const std::string &r : reports) {
            if (reference.empty())
                reference = r;
            if (r.empty() || r != reference)
                ++mismatches;
        }
    }
    const double sustained_s = nowSeconds() - t0;
    const int n_sessions = kWaves * kClientsPerWave;
    const double rec_per_s =
        static_cast<double>(n_records) * n_sessions / sustained_s;

    std::cout << "sustained: " << n_sessions << " sessions of "
              << n_records << " records in " << sustained_s
              << " s  (" << rec_per_s << " records/s, "
              << (rec_per_s / n_sessions) << " per client)\n";
    if (reference.empty() || mismatches != 0) {
        std::cout << "FAIL: " << mismatches
                  << " sessions differed from the first report\n";
        ok = false;
    }

    // ---- Shedding: fill the budget, then probe -------------------
    // Idle sessions (hello sent, stream left open) pin connection
    // slots, so every probe past the budget must be refused.
    constexpr int kHold = 8;
    constexpr int kProbes = 32;

    daemon::ServerConfig shed_cfg;
    shed_cfg.port = 0;
    shed_cfg.max_connections = kHold;
    daemon::Server shed_server(shed_cfg);
    if (!shed_server.start().ok()) {
        std::cerr << "FAIL: shed server start\n";
        server.requestStop();
        loop.join();
        return 1;
    }
    std::thread shed_loop([&shed_server] { (void)shed_server.run(); });

    // The holders never read their ack, so closing them resets the
    // connections rather than ending the sessions cleanly.
    std::vector<net::Client> held(kHold);
    for (net::Client &c : held) {
        if (c.connect("127.0.0.1", shed_server.port(),
                      net::ClientTimeouts{})
                .ok())
            (void)c.sendAll(
                net::renderStreamHello(net::StreamFormat::kCsv, "hold"));
    }
    // Let the event loop accept the holders before probing.
    while (shed_server.activeConnections() <
           static_cast<std::size_t>(kHold))
        std::this_thread::yield();

    int shed = 0;
    const double t1 = nowSeconds();
    net::StreamHello probe;
    probe.tenant = "probe";
    for (int i = 0; i < kProbes; ++i) {
        net::StreamClient c;
        const Status st = c.open("127.0.0.1", shed_server.port(),
                                 probe, net::ClientTimeouts{});
        if (st.code() == StatusCode::kUnavailable &&
            st.message() == "server overloaded")
            ++shed;
    }
    const double shed_s = nowSeconds() - t1;

    std::cout << "shedding:  " << shed << "/" << kProbes
              << " probes refused past a budget of " << kHold
              << " (" << (100.0 * shed / kProbes) << "%, "
              << (kProbes / shed_s) << " refusals/s)\n";
    if (shed != kProbes) {
        std::cout << "FAIL: " << (kProbes - shed)
                  << " probes were not shed\n";
        ok = false;
    }

    held.clear();
    shed_server.requestStop();
    shed_loop.join();
    server.requestStop();
    loop.join();

    std::cout << "\n" << (ok ? "OK" : "FAILED") << "\n";
    return ok ? 0 : 1;
}
