# Runs a command and passes only if it exits with the expected code and its
# stderr matches a regular expression. Used by ctest to pin the error path of
# the command-line tools (a clean message and exit code, never an abort).
#
#   cmake -DCOMMAND="prog|--flag|value" -DEXPECT_EXIT=1
#         -DEXPECT_STDERR="regex" -P expect_exit.cmake
#
# COMMAND separates its arguments with '|' so the list survives add_test.

string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status '${code}', want ${EXPECT_EXIT}; "
                      "stderr:\n${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${stderr}")
endif()
