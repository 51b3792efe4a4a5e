/**
 * @file
 * Process and socket plumbing of the benchmark: child processes that
 * are always stopped and reaped, a one-line-at-a-time TCP client with
 * a response timeout, and /proc readings (peak RSS, CPU model).
 */

#ifndef PERFBENCH_DEPLOY_HPP
#define PERFBENCH_DEPLOY_HPP

#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/**
 * A child process leading its own process group (so the workers an lb
 * spawns are stopped with it). The destructor stops and reaps it; the
 * child also gets SIGTERM if the benchmark dies first.
 */
class Child
{
  public:
    /** fork/exec @p argv with stdout and stderr appended to @p log. */
    Child(const std::vector<std::string> &argv, const std::string &log);
    ~Child();

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    pid_t pid() const { return pid_; }

    /** True once the child has exited (reaps it). */
    bool exited();

    /** Wait up to @p seconds for the child to exit on its own. */
    bool waitExit(double seconds);

    /**
     * SIGTERM the group, SIGKILL it after a grace period, reap the
     * child and wait until no member of the group is left.
     */
    void stop();

  private:
    pid_t pid_ = -1;
    bool reaped_ = false;
};

/** One connection, one request in flight, responses by line. */
class LineClient
{
  public:
    /** Connect to 127.0.0.1:@p port; throws std::runtime_error. */
    explicit LineClient(int port);
    ~LineClient();

    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    /**
     * Send @p line and read one response line into @p response. False
     * on a torn connection or when @p timeout_ms passes first; the
     * connection is then unusable.
     */
    bool exchange(const std::string &line, std::string &response,
                  int timeout_ms);

  private:
    int fd_ = -1;
    std::string buffer_;
};

/**
 * Wait until @p path holds a port number (written by a child), at most
 * @p seconds and only while @p child runs. -1 on failure.
 */
int waitPortFile(const std::string &path, double seconds, Child &child);

/** Peak resident set (VmHWM) of @p pid in kB; 0 when unreadable. */
long vmHwmKb(pid_t pid);

/** "model name" of the first CPU in /proc/cpuinfo ("unknown"). */
std::string cpuModel();

} // namespace perfbench

#endif // PERFBENCH_DEPLOY_HPP
