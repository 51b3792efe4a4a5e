#include "deploy.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/socket_util.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

Child::Child(const std::vector<std::string> &argv, const std::string &log)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0)
        throw std::runtime_error("fork failed");
    if (pid_ == 0) {
        ::setpgid(0, 0);
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent)
            ::_exit(127);
        int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        int in = ::open("/dev/null", O_RDONLY);
        if (out >= 0) {
            ::dup2(out, 1);
            ::dup2(out, 2);
        }
        if (in >= 0)
            ::dup2(in, 0);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    ::setpgid(pid_, pid_);
}

Child::~Child() { stop(); }

bool
Child::exited()
{
    if (reaped_)
        return true;
    int status = 0;
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD))
        reaped_ = true;
    return reaped_;
}

bool
Child::waitExit(double seconds)
{
    Clock::time_point t0 = Clock::now();
    while (!exited()) {
        if (secondsSince(t0) > seconds)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

void
Child::stop()
{
    if (pid_ <= 0)
        return;
    if (!exited()) {
        ::kill(-pid_, SIGTERM);
        if (!waitExit(5.0)) {
            ::kill(-pid_, SIGKILL);
            waitExit(5.0);
        }
    }
    // Members the leader did not reap itself (only after a SIGKILL)
    // are gone once the group is empty.
    Clock::time_point t0 = Clock::now();
    while (::kill(-pid_, 0) == 0 && secondsSince(t0) < 5.0) {
        ::kill(-pid_, SIGKILL);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
}

LineClient::LineClient(int port)
{
    redqaoa::service::detail::ignoreSigpipe();
    fd_ = redqaoa::service::detail::connectLoopback(port, 5000);
    if (fd_ < 0)
        throw std::runtime_error("cannot connect to port " +
                                 std::to_string(port));
}

LineClient::~LineClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineClient::exchange(const std::string &line, std::string &response,
                     int timeout_ms)
{
    if (fd_ < 0 || !redqaoa::service::detail::writeLine(fd_, line))
        return false;
    Clock::time_point t0 = Clock::now();
    for (;;) {
        std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            response.assign(buffer_, 0, nl);
            buffer_.erase(0, nl + 1);
            return true;
        }
        int left = timeout_ms - static_cast<int>(1e3 * secondsSince(t0));
        pollfd pfd{fd_, POLLIN, 0};
        int p = left > 0 ? ::poll(&pfd, 1, left) : 0;
        if (p < 0 && errno == EINTR)
            continue;
        if (p <= 0)
            break;
        char chunk[65536];
        ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd_);
    fd_ = -1;
    return false;
}

int
waitPortFile(const std::string &path, double seconds, Child &child)
{
    Clock::time_point t0 = Clock::now();
    while (secondsSince(t0) < seconds && !child.exited()) {
        // Writers end the port with a newline; without it the file may
        // still be half written.
        std::ifstream in(path);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        if (!text.empty() && text.back() == '\n') {
            int port = std::atoi(text.c_str());
            if (port > 0)
                return port;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return -1;
}

long
vmHwmKb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace perfbench
