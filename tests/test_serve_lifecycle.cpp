// Server start/stop lifecycle. Kept apart from test_serve.cpp so the
// ThreadSanitizer binary (test_runtime) runs it too: shutdown() and the
// accept thread must not race on the listening socket.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace ind;

// Each round accepts one handshaken client, so the accept loop has gone back
// into accept() when shutdown() wakes it and tears the listener down.
TEST(ServeLifecycle, StartStopWithLiveClientOverTcp) {
  for (int round = 0; round < 3; ++round) {
    serve::Server server(serve::ServerConfig{});
    server.start();
    ASSERT_TRUE(server.running());
    serve::Client client;
    client.connect_tcp("127.0.0.1", server.port());
    EXPECT_FALSE(client.server_id().empty());
    server.shutdown();
    EXPECT_FALSE(server.running());
  }
}

TEST(ServeLifecycle, StartStopWithLiveClientOverUnixSocket) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ind_lifecycle_" + std::to_string(::getpid()) + ".sock"))
          .string();
  for (int round = 0; round < 3; ++round) {
    serve::ServerConfig config;
    config.uds_path = path;
    serve::Server server(config);
    server.start();
    serve::Client client;
    client.connect_uds(path);
    EXPECT_FALSE(client.server_id().empty());
    server.shutdown();
    EXPECT_FALSE(server.running());
    EXPECT_NE(::access(path.c_str(), F_OK), 0);  // shutdown unlinks it
  }
}

}  // namespace
