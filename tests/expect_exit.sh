#!/bin/sh
# Run a command line and require an exact exit status plus a first line
# of output (stdout and stderr together) matching an extended regex, so
# nothing may print, let alone run, before the usage or error message.
#
#   expect_exit.sh STATUS REGEX COMMAND [ARGS...]
#
# Used by the CLI tests in tests/CMakeLists.txt: malformed flag values
# must exit 2 with a message, --help must exit 0 with usage.
expected=$1
pattern=$2
shift 2
out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne "$expected" ]; then
    echo "expect_exit: exit status $status, expected $expected"
    exit 1
fi
if ! printf '%s\n' "$out" | head -n 1 | grep -Eq -- "$pattern"; then
    echo "expect_exit: first output line does not match /$pattern/"
    exit 1
fi
