#include "procs.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace perfbench {

bool Child::Spawn(const std::vector<std::string>& argv,
                  const std::string& log_prefix) {
  out_path_ = log_prefix + ".out";
  const std::string err_path = log_prefix + ".err";
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  // Opened (and truncated) before the fork, so WaitServing never reads a
  // previous run's log.
  const int out = open(out_path_.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int err = open(err_path.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int in = open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (out < 0 || err < 0 || in < 0) {
    for (int fd : {out, err, in}) {
      if (fd >= 0) close(fd);
    }
    return false;
  }
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(in, 0);
    dup2(out, 1);
    dup2(err, 2);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  close(out);
  close(err);
  close(in);
  if (pid_ < 0) return false;
  return true;
}

int Child::WaitServing(double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(timeout_s * 1e6));
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream f(out_path_);
    std::string line;
    while (std::getline(f, line)) {
      const char* key = "serving on port ";
      const size_t at = line.find(key);
      if (at != std::string::npos) {
        return std::atoi(line.c_str() + at + std::strlen(key));
      }
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return -1;
}

double Child::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Child::CpuSeconds() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name, which may hold spaces:
  // state is field 3, utime and stime are fields 14 and 15.
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream in(stat.substr(paren + 1));
  std::string skip;
  for (int field = 3; field <= 13; ++field) in >> skip;
  double utime = 0.0, stime = 0.0;
  if (!(in >> utime >> stime)) return 0.0;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void Child::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGINT);
  int status = 0;
  for (int i = 0; i < 500; ++i) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

double Stack::PeakRssMb() const {
  double total = front != nullptr ? front->PeakRssMb() : 0.0;
  for (const auto& s : shards) total += s->PeakRssMb();
  return total;
}

double Stack::CpuSeconds() const {
  double total = front != nullptr ? front->CpuSeconds() : 0.0;
  for (const auto& s : shards) total += s->CpuSeconds();
  return total;
}

void Stack::Stop() {
  if (front != nullptr) front->Stop();
  for (auto& s : shards) s->Stop();
}

std::unique_ptr<Stack> StartStack(const StackSpec& spec,
                                  const std::string& tag) {
  auto stack = std::make_unique<Stack>();
  auto server_argv = [&](int index) {
    std::vector<std::string> argv = {spec.server_bin, "--port", "0"};
    if (spec.tiny) argv.push_back("--tiny");
    if (spec.shards > 0) {
      argv.insert(argv.end(), {"--num-shards", std::to_string(spec.shards),
                               "--shard-index", std::to_string(index)});
    }
    return argv;
  };
  if (spec.shards == 0) {
    stack->front = std::make_unique<Child>();
    if (!stack->front->Spawn(server_argv(0), spec.log_dir + "/" + tag)) {
      std::fprintf(stderr, "spawn %s failed\n", spec.server_bin.c_str());
      return nullptr;
    }
    stack->port = stack->front->WaitServing(60.0);
    if (stack->port <= 0) {
      std::fprintf(stderr, "storm_server did not start (see %s/%s.err)\n",
                   spec.log_dir.c_str(), tag.c_str());
      return nullptr;
    }
    return stack;
  }
  // Shards load their partitions concurrently, as a fleet would.
  for (int k = 0; k < spec.shards; ++k) {
    stack->shards.push_back(std::make_unique<Child>());
    if (!stack->shards.back()->Spawn(
            server_argv(k),
            spec.log_dir + "/" + tag + "-shard" + std::to_string(k))) {
      std::fprintf(stderr, "spawn shard %d failed\n", k);
      return nullptr;
    }
  }
  std::vector<std::string> coord = {spec.coordinator_bin, "--port", "0"};
  for (int k = 0; k < spec.shards; ++k) {
    const int port = stack->shards[k]->WaitServing(60.0);
    if (port <= 0) {
      std::fprintf(stderr, "shard %d did not start\n", k);
      return nullptr;
    }
    stack->shard_ports.push_back(port);
    coord.insert(coord.end(), {"--shard", "127.0.0.1:" + std::to_string(port)});
  }
  stack->front = std::make_unique<Child>();
  if (!stack->front->Spawn(coord, spec.log_dir + "/" + tag + "-coordinator")) {
    std::fprintf(stderr, "spawn %s failed\n", spec.coordinator_bin.c_str());
    return nullptr;
  }
  stack->port = stack->front->WaitServing(60.0);
  if (stack->port <= 0) {
    std::fprintf(stderr, "storm_coordinator did not start\n");
    return nullptr;
  }
  return stack;
}

}  // namespace perfbench
